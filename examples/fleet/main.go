// Fleet: manufacturing-spread view — what EVAL does across a population of
// chips, the way Figure 10 averages over 100 dies.
//
// For a fleet of chips, this example bins the worst-case-safe (Baseline)
// frequency, then shows the per-chip frequency the preferred EVAL
// environment reaches in each mode — the Static operating point, the
// Fuzzy-Dyn controllers and the Exh-Dyn search — and the distribution of
// the gains. It runs the fleet twice: once on the gcc proxy, once on a
// generated client workload (see WORKLOADS.md) — pass -spec to bring
// your own scenario:
//
//	go run ./examples/fleet
//	go run ./examples/fleet -spec examples/specs/edge.json -seed 42
//
// Every chip runs the app's heaviest phase in the preferred environment
// in each mode, in the order the fleet service runs them: static, fuzzy,
// then exh. Each chip is acquired once for every app it runs, and its
// fuzzy controllers are trained once, on the chip itself, with
// trainExamples examples per controller.
//
// With -serve the same table is produced by an evalserve instance
// instead of in-process: each chip joins the fleet, submits a baseline
// probe and the three adaptation units, and leaves. The output is
// byte-identical to the local run of the same -chips and -app when the
// server trains with trainExamples examples:
//
//	go run ./cmd/evalserve -examples 100 &
//	go run ./examples/fleet -app gcc -chips 4
//	go run ./examples/fleet -app gcc -chips 4 -serve http://localhost:8080
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/mathx"
	"repro/internal/workload"
)

// trainExamples is the fuzzy training examples per controller; a server
// behind -serve must run with -examples set to it.
const trainExamples = 100

func main() {
	specPath := flag.String("spec", "", "workload spec JSON for the generated fleet run (default: a built-in server-mix client)")
	specSeed := flag.Int64("seed", 1, "generation seed for the workload spec")
	chips := flag.Int("chips", 12, "fleet size")
	appName := flag.String("app", "", "run a single suite app instead of proxy + generated")
	serveURL := flag.String("serve", "", "evalserve base URL; submit the fleet as an event batch instead of simulating in-process (requires -app)")
	flag.Parse()

	if *serveURL != "" {
		if *appName == "" {
			log.Fatal("-serve requires -app (the server resolves apps from its own suite)")
		}
		app, err := workload.ByName(*appName)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := remoteRows(*serveURL, app, *chips)
		if err != nil {
			log.Fatal(err)
		}
		printFleet(app, rows)
		return
	}

	var apps []workload.App
	if *appName != "" {
		app, err := workload.ByName(*appName)
		if err != nil {
			log.Fatal(err)
		}
		apps = []workload.App{app}
	} else {
		proxy, err := workload.ByName("gcc")
		if err != nil {
			log.Fatal(err)
		}
		generated, err := generatedApp(*specPath, *specSeed)
		if err != nil {
			log.Fatal(err)
		}
		apps = []workload.App{proxy, generated}
	}
	sim, err := core.NewSimulator(core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	rows, err := fleetRows(sim, apps, *chips)
	if err != nil {
		log.Fatal(err)
	}
	for i, app := range apps {
		if i > 0 {
			fmt.Println()
		}
		printFleet(app, rows[i])
	}
}

// generatedApp lowers the spec (or a built-in single-client scenario) and
// returns its first app.
func generatedApp(specPath string, seed int64) (workload.App, error) {
	spec := workload.Spec{
		Name: "fleet",
		Clients: []workload.ClientSpec{{
			Name:    "serve",
			Class:   workload.GenServerMix,
			Arrival: workload.Arrival{Process: workload.Gamma, RatePerS: 300, Shape: 0.6},
			Windows: 6,
			Drift:   0.15,
		}},
	}
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return workload.App{}, err
		}
		s, err := workload.DecodeSpec(data)
		if err != nil {
			return workload.App{}, err
		}
		spec = *s
	}
	apps, err := workload.GenerateApps(spec, seed)
	if err != nil {
		return workload.App{}, err
	}
	return apps[0], nil
}

// env is the preferred EVAL environment every adaptation unit runs in.
const env = core.TSASVQFU

// The adaptation units each chip runs, in the order the fleet service
// runs a chip's events, and their run-event modes. Exh-Dyn, last, is
// the table's EVAL reference.
var (
	unitModes  = [...]core.Mode{core.Static, core.FuzzyDyn, core.ExhDyn}
	fleetModes = [...]string{fleet.ModeStatic, fleet.ModeFuzzy, fleet.ModeExh}
)

// exhUnit is Exh-Dyn's position in unitModes.
const exhUnit = len(unitModes) - 1

// chipRow is one chip's line of the fleet table.
type chipRow struct {
	fvar   float64                 // worst-case-safe baseline frequency
	fcore  [len(unitModes)]float64 // adapted frequency, per unitModes entry
	powerW float64                 // Exh-Dyn power
}

// fleetRows simulates the fleet in-process and returns each app's
// per-chip rows, rows[i] for apps[i].
func fleetRows(sim *core.Simulator, apps []workload.App, chips int) ([][]chipRow, error) {
	// The fleet service's training set: the defaults at trainExamples.
	training := adapt.DefaultTrainOptions()
	training.Examples = trainExamples
	rows := make([][]chipRow, len(apps))
	for seed := int64(0); seed < int64(chips); seed++ {
		if err := chipUnits(sim, seed, apps, training, rows); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// chipUnits runs one chip's units the way the fleet service's owner
// worker does: one chip handle, one core for the environment, and each
// app's heaviest phase in each mode in turn, with the static point chosen
// over the service's application universe (the full suite). It appends
// the chip's row for apps[i] to rows[i].
func chipUnits(sim *core.Simulator, seed int64, apps []workload.App, training adapt.TrainOptions, rows [][]chipRow) error {
	h, err := sim.AcquireChip(seed)
	if err != nil {
		return err
	}
	defer sim.ReleaseChip(h)
	cpu, err := sim.HandleCore(h, env)
	if err != nil {
		return err
	}
	for a, app := range apps {
		row := chipRow{fvar: h.FVar()}
		for i, mode := range unitModes {
			unit := core.FleetUnit{App: app, Phase: heaviestPhaseIndex(app)}
			var solver adapt.Solver
			switch mode {
			case core.Static:
				pt, err := sim.HandleStaticPoint(h, cpu, app.Class, workload.Suite())
				if err != nil {
					return err
				}
				unit.Static = &pt
			case core.FuzzyDyn:
				if solver, _, err = sim.HandleSolver(h, cpu, training); err != nil {
					return err
				}
			case core.ExhDyn:
				solver = adapt.Exhaustive{}
			}
			run, err := sim.UnitAppRun(seed, cpu, mode, solver, unit)
			if err != nil {
				return err
			}
			row.fcore[i] = run.FRel
			if i == exhUnit {
				row.powerW = run.PowerW
			}
		}
		rows[a] = append(rows[a], row)
	}
	return nil
}

// remoteRows produces the same per-chip rows through an evalserve
// instance: one event batch of join + baseline probe + the heaviest
// phase in each mode + leave per chip.
func remoteRows(baseURL string, app workload.App, chips int) ([]chipRow, error) {
	phase := heaviestPhaseIndex(app)
	const perChip = len(unitModes) + 3
	events := make([]fleet.Event, 0, perChip*chips)
	for seed := int64(0); seed < int64(chips); seed++ {
		events = append(events,
			fleet.Event{Kind: fleet.KindJoin, Chip: seed},
			fleet.Event{Kind: fleet.KindRun, Chip: seed, Mode: fleet.ModeBaseline})
		for _, mode := range fleetModes {
			ph := phase
			events = append(events, fleet.Event{Kind: fleet.KindRun, Chip: seed, Mode: mode,
				Env: env.String(), App: app.Name, Phase: &ph})
		}
		events = append(events, fleet.Event{Kind: fleet.KindLeave, Chip: seed})
	}
	body, err := json.Marshal(struct {
		Events []fleet.Event `json:"events"`
	}{events})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(strings.TrimRight(baseURL, "/")+"/v1/batch",
		"application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server: %s", resp.Status)
	}
	var results []fleet.Result
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var r fleet.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, err
		}
		if r.Status != fleet.StatusOK {
			return nil, fmt.Errorf("event %d (%s %s chip %d): %s: %s",
				r.Seq, r.Kind, r.Mode, r.Chip, r.Status, r.Err)
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(results) != len(events) {
		return nil, fmt.Errorf("server streamed %d results for %d events", len(results), len(events))
	}
	// Results arrive in submission order: per chip, offset 1 is the
	// baseline probe and the adaptation units follow it.
	rows := make([]chipRow, 0, chips)
	for c := 0; c < chips; c++ {
		rs := results[perChip*c+1 : perChip*(c+1)-1]
		var row chipRow
		for i, r := range rs {
			if r.Run == nil {
				return nil, fmt.Errorf("chip %d: missing run payload", c)
			}
			if i == 0 {
				row.fvar = r.Run.FRel
				continue
			}
			row.fcore[i-1] = r.Run.FRel
			if i-1 == exhUnit {
				row.powerW = r.Run.PowerW
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// printFleet renders the fleet table; local and -serve runs share it so
// their outputs are comparable byte-for-byte.
func printFleet(app workload.App, rows []chipRow) {
	fmt.Printf("fleet of %d chips running %s (%v)\n\n", len(rows), app.Name, env)
	fmt.Printf("%-6s %12s", "chip", "baseline")
	for _, mode := range unitModes {
		fmt.Printf(" %12s", mode)
	}
	fmt.Printf(" %8s %10s\n", "gain", "power")
	base := make([]float64, 0, len(rows))
	adapted := make([][]float64, len(unitModes))
	for seed, r := range rows {
		base = append(base, r.fvar)
		fmt.Printf("%-6d %8.2f GHz", seed, r.fvar*4)
		for i, f := range r.fcore {
			adapted[i] = append(adapted[i], f)
			fmt.Printf(" %8.2f GHz", f*4)
		}
		fmt.Printf(" %+7.0f%% %8.1f W\n", (r.fcore[exhUnit]/r.fvar-1)*100, r.powerW)
	}

	bs, _ := mathx.Summarize(base)
	fmt.Printf("\nbaseline:  mean %.2f GHz (%.0f%% of nominal), spread %.2f-%.2f GHz\n",
		bs.Mean*4, bs.Mean*100, bs.Min*4, bs.Max*4)
	for i, mode := range unitModes {
		as, _ := mathx.Summarize(adapted[i])
		fmt.Printf("%-10s mean %.2f GHz (%+.0f%% over Baseline), spread %.2f-%.2f GHz\n",
			mode.String()+":", as.Mean*4, (as.Mean/bs.Mean-1)*100, as.Min*4, as.Max*4)
	}
	fmt.Printf("(the paper reports +56%% mean frequency for Exh-Dyn over Baseline)\n\n")

	// A compact histogram: where the fleet's chips land.
	fmt.Println("frequency binning (x = one chip):")
	fmt.Printf("  %-9s %s\n", "baseline", sparkline(base, 0.6, 1.4))
	for i, mode := range unitModes {
		fmt.Printf("  %-9s %s\n", mode, sparkline(adapted[i], 0.6, 1.4))
	}
	fmt.Println("            0.6 GHz-bins (relative 0.6 .. 1.4 of nominal)")
}

// heaviestPhaseIndex returns the position of the app's highest-weight
// phase, the form run events carry.
func heaviestPhaseIndex(app workload.App) int {
	best := 0
	for i, ph := range app.Phases {
		if ph.Weight > app.Phases[best].Weight {
			best = i
		}
	}
	return best
}

// sparkline bins values into 16 buckets over [lo, hi].
func sparkline(xs []float64, lo, hi float64) string {
	const bins = 16
	counts := make([]int, bins)
	for _, x := range xs {
		b := int(float64(bins) * (x - lo) / (hi - lo))
		if b < 0 {
			b = 0
		}
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	var sb strings.Builder
	for _, c := range counts {
		switch {
		case c == 0:
			sb.WriteByte('.')
		case c < 3:
			sb.WriteByte('x')
		default:
			sb.WriteByte('X')
		}
	}
	return sb.String()
}

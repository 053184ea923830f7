// Command tracegen generates and validates TraceV1 workload traces (see
// WORKLOADS.md for the format and internal/workload for the generator).
//
// Generate a trace from a spec, then run experiments on it:
//
//	tracegen -spec examples/specs/edge.json -seed 42 -out edge.trace.json
//	evalsim -experiment fig10 -chips 4 -trace edge.trace.json
//
// Or pipe directly (the trace goes to stdout by default):
//
//	tracegen -spec examples/specs/edge.json -seed 42 | evalsim -experiment fig10 -trace -
//
// Validate checked-in specs and recorded traces (used by CI):
//
//	tracegen -validate examples/specs/edge.json edge.trace.json
//
// -validate detects each file's kind from its "format" field: trace
// documents are strictly decoded and — when they embed their generator
// spec and seed — regenerated and compared hash-for-hash; spec documents
// are decoded, validated, and smoke-lowered at seed 1.
//
// Flags:
//
//	-spec file   workload spec JSON to generate from
//	-seed n      generation seed (default 1); (spec, seed) fully
//	             determine the trace, byte for byte
//	-out file    output path (default "-" = stdout)
//	-validate    validate the positional spec/trace files instead of
//	             generating
//	-quiet       suppress the per-file/per-trace stderr notes
//
// Artifact-cache flags (see README "Artifact cache"): with -cache-dir
// (or $EVAL_CACHE_DIR) the generated trace is stored under its (spec,
// seed) key — the same entry evalsim's -workload-spec runs read — so
// generating here warms the simulator's replay path and vice versa;
// -no-cache forces the cache off. Output is byte-identical either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	var (
		specPath = flag.String("spec", "", "workload spec JSON to generate from")
		seed     = flag.Int64("seed", 1, "generation seed")
		outPath  = flag.String("out", "-", "output path (\"-\" = stdout)")
		validate = flag.Bool("validate", false, "validate the positional spec/trace files instead of generating")
		quiet    = flag.Bool("quiet", false, "suppress stderr notes")
	)
	openStore := artifact.CacheFlags(flag.CommandLine)
	flag.Parse()

	store, err := openStore(artifact.Options{})
	if err != nil {
		fatal(err)
	}
	defer store.Close() // save the index (each write is already on disk); nil-safe

	switch {
	case *validate:
		if flag.NArg() == 0 {
			fatal(fmt.Errorf("-validate needs at least one spec or trace file"))
		}
		failed := false
		for _, path := range flag.Args() {
			if err := validateFile(path, *quiet); err != nil {
				fmt.Fprintf(os.Stderr, "tracegen: %s: %v\n", path, err)
				failed = true
			}
		}
		if failed {
			os.Exit(1)
		}
	case *specPath != "":
		if err := generate(store, *specPath, *seed, *outPath, *quiet); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("nothing to do: pass -spec to generate or -validate files to check (see -h)"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}

func generate(store *artifact.Store, specPath string, seed int64, outPath string, quiet bool) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	spec, err := workload.DecodeSpec(data)
	if err != nil {
		return err
	}
	enc, err := core.TraceArtifact(store, *spec, seed)
	if err != nil {
		return err
	}
	t, err := workload.DecodeTrace(enc)
	if err != nil {
		return err
	}
	if outPath == "-" {
		if _, err := os.Stdout.Write(enc); err != nil {
			return err
		}
	} else if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		return err
	}
	if !quiet {
		hash, err := t.Hash()
		if err != nil {
			return err
		}
		phases := 0
		for _, a := range t.Apps {
			phases += len(a.Phases)
		}
		fmt.Fprintf(os.Stderr, "tracegen: %s seed %d -> %d apps, %d phases, sha256 %s\n",
			spec.Name, seed, len(t.Apps), phases, hash)
	}
	return nil
}

// validateFile checks one document, detecting its kind from the "format"
// header: TraceV1 files are strictly decoded (and regenerated from their
// embedded spec+seed when present, comparing hashes); anything else must
// be a valid workload spec that lowers cleanly.
func validateFile(path string, quiet bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var header struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &header); err != nil {
		return fmt.Errorf("not a JSON document: %w", err)
	}
	if header.Format == workload.TraceFormat {
		t, err := workload.DecodeTrace(data)
		if err != nil {
			return err
		}
		note := "trace ok (no embedded spec to cross-check)"
		if t.Spec != nil && t.Generator == workload.Generator {
			regen, err := workload.Generate(*t.Spec, t.Seed)
			if err != nil {
				return fmt.Errorf("embedded spec does not regenerate: %w", err)
			}
			want, err := t.Hash()
			if err != nil {
				return err
			}
			got, err := regen.Hash()
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("trace does not match its embedded (spec, seed): recorded %s, regenerated %s", want, got)
			}
			note = fmt.Sprintf("trace ok, replays byte-identically (sha256 %s)", want)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "tracegen: %s: %s\n", path, note)
		}
		return nil
	}
	spec, err := workload.DecodeSpec(data)
	if err != nil {
		return err
	}
	apps, err := workload.GenerateApps(*spec, 1)
	if err != nil {
		return fmt.Errorf("spec does not lower: %w", err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "tracegen: %s: spec ok (%d clients lower to %d apps)\n",
			path, len(spec.Clients), len(apps))
	}
	return nil
}

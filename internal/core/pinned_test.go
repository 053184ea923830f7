package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
)

// TestFig13Table2PinnedDigests pins the Figure 13 and Table 2 outputs to
// recorded SHA-256 digests of their JSON encodings. The worker-determinism
// and cold/warm tests only compare a build with itself; this one notices
// drift against the values these experiments have always produced. The
// digests were recorded on amd64, where Go never fuses a multiply-add;
// other architectures may, so the test skips there.
func TestFig13Table2PinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training across 16 configs")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	pinned := func() ExperimentConfig {
		cfg := DefaultExperimentConfig()
		cfg.SeedBase = 1000
		cfg.Training.Examples = 60
		cfg.Training.Fuzzy.Epochs = 2
		return cfg
	}
	for _, tc := range []struct {
		name string
		want string
		run  func(*Simulator) (any, error)
	}{
		{"fig13", "70dc6fe0797ec2f8142f3c54b002b316fd9b377dcdb3c1d698c397a95a5f0ecb",
			func(s *Simulator) (any, error) {
				cfg := pinned()
				cfg.Chips = 1
				cfg.Apps = []string{"gcc"}
				return s.RunOutcomes(cfg)
			}},
		{"table2", "3865d14ff2ae1860dd7fd6707f3c11ae85aed32d9de617386a16a32a746621f9",
			func(s *Simulator) (any, error) {
				cfg := pinned()
				cfg.Chips = 2
				return s.RunTable2(cfg)
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run(newSim(t))
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s digest = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

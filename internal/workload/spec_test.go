package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mathx"
)

func testSpec() Spec {
	return Spec{
		Name: "edge",
		Clients: []ClientSpec{
			{Name: "stream", Class: GenMemoryWall, Arrival: Arrival{Process: Poisson, RatePerS: 200}, Drift: 0.2},
			{Name: "ctrl", Class: GenBranchyInt, Arrival: Arrival{Process: Gamma, RatePerS: 150, Shape: 0.5}, Windows: 6, Drift: 0.1},
			{Name: "simd", Class: GenVectorFP, Arrival: Arrival{Process: Weibull, RatePerS: 120, Shape: 2}},
			{Name: "burst", Class: GenBurstyIdle, Arrival: Arrival{Process: Gamma, RatePerS: 80, Shape: 0.3}, Windows: 8, DutyCycle: 0.5, Drift: 0.3},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "no name"},
		{"no clients", func(s *Spec) { s.Clients = nil }, "no clients"},
		{"dup client", func(s *Spec) { s.Clients[1].Name = "stream" }, "duplicate client"},
		{"bad class", func(s *Spec) { s.Clients[0].Class = "quantum" }, "unknown generative class"},
		{"bad process", func(s *Spec) { s.Clients[0].Arrival.Process = "pareto" }, "unknown arrival process"},
		{"zero rate", func(s *Spec) { s.Clients[0].Arrival.RatePerS = 0 }, "rate_per_s"},
		{"wild shape", func(s *Spec) { s.Clients[1].Arrival.Shape = 100 }, "shape"},
		{"too many windows", func(s *Spec) { s.Clients[0].Windows = 99 }, "windows"},
		{"drift", func(s *Spec) { s.Clients[0].Drift = 0.9 }, "drift"},
		{"duty", func(s *Spec) { s.Clients[0].DutyCycle = 1.5 }, "duty_cycle"},
		{"window_s", func(s *Spec) { s.WindowS = 99 }, "window_s"},
	}
	for _, c := range bad {
		s := testSpec()
		c.mutate(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// TestSpecBoundsExpectedArrivals: a spec whose expected arrivals exceed
// MaxExpectedArrivals is rejected before any arrival is drawn (at 1e9
// requests per second this spec used to generate for minutes), and one
// exactly at the bound is accepted.
func TestSpecBoundsExpectedArrivals(t *testing.T) {
	hot := `{"name":"hot","window_s":10,"clients":[{"name":"a","class":"memory-wall","arrival":{"process":"poisson","rate_per_s":1e9}}]}`
	if _, err := DecodeSpec([]byte(hot)); err == nil || !strings.Contains(err.Error(), "arrivals") {
		t.Fatalf("1e9 requests/s for 4 windows of 10 s: got %v, want the arrival bound", err)
	}
	spec := testSpec()
	spec.Clients = spec.Clients[:1]
	spec.WindowS = 10
	spec.Clients[0].Arrival.RatePerS = MaxExpectedArrivals / (10 * 4)
	if err := spec.Validate(); err != nil {
		t.Fatalf("spec at the bound rejected: %v", err)
	}
	spec.Clients = append(spec.Clients, ClientSpec{Name: "one-more", Class: GenServerMix,
		Arrival: Arrival{Process: Poisson, RatePerS: 0.1}})
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "arrivals") {
		t.Fatalf("spec past the bound by its second client: got %v, want the arrival bound", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := testSpec()
	a, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(ea) != string(eb) {
		t.Fatal("same spec+seed generated different traces")
	}
	c, err := Generate(spec, 43)
	if err != nil {
		t.Fatal(err)
	}
	ec, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(ea) == string(ec) {
		t.Fatal("different seeds generated identical traces")
	}
}

func TestGenerateLowersToValidApps(t *testing.T) {
	apps, err := GenerateApps(testSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 4 {
		t.Fatalf("got %d apps, want 4", len(apps))
	}
	if apps[0].Name != "edge/stream" || apps[2].Name != "edge/simd" {
		t.Errorf("unexpected app names: %q, %q", apps[0].Name, apps[2].Name)
	}
	if apps[2].Class != FP {
		t.Errorf("vector-fp client lowered to class %v, want FP", apps[2].Class)
	}
	for _, a := range apps {
		if a.Trace == "" {
			t.Errorf("app %q has no trace provenance", a.Name)
		}
		wsum := 0.0
		for i, ph := range a.Phases {
			if ph.Index != i {
				t.Errorf("app %q: phase indices not consecutive", a.Name)
			}
			if err := ph.Mix.Validate(); err != nil {
				t.Errorf("app %q phase %d: invalid mix: %v", a.Name, i, err)
			}
			if ph.Signature == 0 {
				t.Errorf("app %q phase %d: zero signature", a.Name, i)
			}
			wsum += ph.Weight
		}
		if math.Abs(wsum-1) > 1e-9 {
			t.Errorf("app %q: weights sum to %v", a.Name, wsum)
		}
	}
}

func TestGenerateDegenerateClient(t *testing.T) {
	// A rate so low that no window sees an arrival must still produce one
	// archetype phase rather than an empty app.
	spec := Spec{
		Name: "quiet",
		Clients: []ClientSpec{
			{Name: "idle", Class: GenServerMix, Arrival: Arrival{Process: Poisson, RatePerS: 1e-9}, DutyCycle: 0.1},
		},
	}
	apps, err := GenerateApps(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	base, _, _ := GenServerMix.Archetype()
	if len(apps[0].Phases) != 1 || apps[0].Phases[0].Weight != 1 || apps[0].Phases[0].Mix != base {
		t.Fatalf("degenerate client: got %+v, want one archetype phase of weight 1", apps[0].Phases)
	}
}

func TestArrivalMeanNormalized(t *testing.T) {
	// Shape must move burstiness only: the expected arrival count over a
	// long horizon is rate*time for every process/shape combination.
	const rate, horizon = 50.0, 400.0
	for _, a := range []Arrival{
		{Process: Poisson, RatePerS: rate},
		{Process: Gamma, RatePerS: rate, Shape: 0.5},
		{Process: Gamma, RatePerS: rate, Shape: 4},
		{Process: Weibull, RatePerS: rate, Shape: 0.7},
		{Process: Weibull, RatePerS: rate, Shape: 2},
	} {
		rng := mathx.NewRNG(9)
		elapsed, n := 0.0, 0
		for elapsed < horizon {
			elapsed += a.interarrival(rng)
			n++
		}
		want := rate * horizon
		if math.Abs(float64(n)-want) > 0.05*want {
			t.Errorf("%s shape=%g: %d arrivals over %gs, want ~%g", a.Process, a.Shape, n, horizon, want)
		}
	}
}

func TestGenClassArchetypesValid(t *testing.T) {
	for _, c := range GenClasses() {
		mix, _, err := c.Archetype()
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if err := mix.Validate(); err != nil {
			t.Errorf("%s archetype mix invalid: %v", c, err)
		}
	}
	if _, _, err := GenClass("nope").Archetype(); err == nil {
		t.Error("unknown class accepted")
	}
}

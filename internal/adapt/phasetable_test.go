package adapt

import (
	"sync"
	"testing"
)

func samplePoint(f float64) OperatingPoint {
	return OperatingPoint{FCore: f, VddV: []float64{1.0}, VbbV: []float64{0}}
}

func TestPhaseTableSaveLookup(t *testing.T) {
	pt := NewPhaseTable()
	if _, ok := pt.Lookup(1); ok {
		t.Error("empty table should miss")
	}
	pt.Save(1, samplePoint(1.1))
	got, ok := pt.Lookup(1)
	if !ok || got.FCore != 1.1 {
		t.Fatalf("lookup = %+v, %v", got, ok)
	}
	if _, ok := pt.Lookup(2); ok {
		t.Error("unsaved phase should miss")
	}
	// The stored point is isolated from caller mutation.
	got.VddV[0] = 99
	again, _ := pt.Lookup(1)
	if again.VddV[0] == 99 {
		t.Error("table shares backing arrays with callers")
	}
}

func TestPhaseTableConcurrentAccess(t *testing.T) {
	pt := NewPhaseTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pt.Save(i%10, samplePoint(1.0+float64(g)*0.01))
				pt.Lookup(i % 10)
			}
		}(g)
	}
	wg.Wait()
	for id := 0; id < 10; id++ {
		if _, ok := pt.Lookup(id); !ok {
			t.Errorf("phase %d missing after concurrent saves", id)
		}
	}
	if _, ok := pt.Lookup(10); ok {
		t.Error("phase 10 was never saved")
	}
}

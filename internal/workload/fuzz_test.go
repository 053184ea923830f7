package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// exampleSpecs reads the checked-in example specs.
func exampleSpecs(f *testing.F) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example specs (%v)", err)
	}
	var docs [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		docs = append(docs, b)
	}
	return docs
}

// seedVariants adds doc to the corpus with its truncations and with an
// extra field spliced in after its first field name: name, the field
// name and its value as raw JSON.
func seedVariants(f *testing.F, doc []byte, field string) {
	f.Helper()
	f.Add(doc)
	for _, n := range []int{1, len(doc) / 3, len(doc) / 2, len(doc) - 2} {
		f.Add(doc[:n])
	}
	f.Add(bytes.Replace(doc, []byte("{"), []byte("{"+field+","), 1))
}

// FuzzDecodeTrace: the strict TraceV1 decoder either rejects a document
// or returns a trace that re-encodes to a document it accepts again
// with the same content hash, and that lowers to apps. Decoding, the
// round trip and lowering are linear in the input, so no input makes
// them run long.
func FuzzDecodeTrace(f *testing.F) {
	for i, doc := range exampleSpecs(f) {
		spec, err := DecodeSpec(doc)
		if err != nil {
			f.Fatal(err)
		}
		tr, err := Generate(*spec, int64(i))
		if err != nil {
			f.Fatal(err)
		}
		enc, err := tr.Encode()
		if err != nil {
			f.Fatal(err)
		}
		seedVariants(f, enc, `"wattage": 9000`)
		f.Add(bytes.Replace(enc, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTrace(data)
		if err != nil {
			return
		}
		enc, err := tr.Encode()
		if err != nil {
			t.Fatalf("accepted trace does not encode: %v", err)
		}
		back, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		h1, err := tr.Hash()
		if err != nil {
			t.Fatal(err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("round trip changed the content hash: %s -> %s", h1, h2)
		}
		if _, err := tr.Lower(); err != nil {
			t.Fatalf("accepted trace does not lower: %v", err)
		}
	})
}

// FuzzDecodeSpec: the strict spec decoder either rejects a document or
// returns a spec that generates a valid trace at any seed. The arrival
// bound (MaxExpectedArrivals) keeps every accepted spec's generation
// cheap, so no input makes it run long.
func FuzzDecodeSpec(f *testing.F) {
	for _, doc := range exampleSpecs(f) {
		seedVariants(f, doc, `"version": 2`)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := DecodeSpec(data)
		if err != nil {
			return
		}
		for _, seed := range []int64{0, 7} {
			tr, err := Generate(*spec, seed)
			if err != nil {
				t.Fatalf("accepted spec does not generate at seed %d: %v", seed, err)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("generated trace invalid at seed %d: %v", seed, err)
			}
		}
	})
}

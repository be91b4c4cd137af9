package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseManifest throws arbitrary bytes at the manifest reader. The
// contract under test: ParseManifest returns a manifest or an error and
// never panics, and a manifest that parses survives a write/parse round
// trip — it re-encodes, re-parses, and the re-parsed manifest encodes
// to the same bytes. (Byte equality of the encodings is the comparison
// because an empty list and an omitted one, or a config's whitespace,
// decode to different but equivalent values.)
func FuzzParseManifest(f *testing.F) {
	// The manifest cmd/figgen writes for a resumed fig5 run (the run of
	// TestCheckpointResumeProducesByteIdenticalCSV), plus truncations
	// the fuzzer can splice from.
	seed, err := os.ReadFile(filepath.Join("testdata", "resumed.manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, n := range []int{0, 1, len(seed) / 4, len(seed) / 2, len(seed) - 2} {
		f.Add(seed[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			if m != nil {
				t.Fatalf("ParseManifest returned a manifest with error %v", err)
			}
			return
		}
		var first bytes.Buffer
		if err := m.WriteJSON(&first); err != nil {
			t.Fatalf("parsed manifest does not re-encode: %v", err)
		}
		again, err := ParseManifest(first.Bytes())
		if err != nil {
			t.Fatalf("re-encoded manifest does not re-parse: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("re-parsed manifest does not re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the manifest:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

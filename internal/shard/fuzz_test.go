package shard

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mmwalign/internal/experiment"
)

// validHeader returns the shard.json InitDir writes for cfg's Fig. 5
// run.
func validHeader(tb testing.TB, cfg experiment.Config) []byte {
	tb.Helper()
	dir := tb.TempDir()
	if _, err := InitDir(dir, 5, cfg); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "shard.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// negativeDrops returns a copy of the header with the right config hash
// and a restated drop count of -1.
func negativeDrops(tb testing.TB, header []byte) []byte {
	tb.Helper()
	var h DirHeader
	if err := json.Unmarshal(header, &h); err != nil {
		tb.Fatal(err)
	}
	h.Drops = -1
	data, err := json.Marshal(h)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzInitDir throws arbitrary bytes at shard.json, the file every
// worker and the merge read the run's identity from. InitDir must never
// panic, and it may accept only a header that restates the config's own
// run shape.
func FuzzInitDir(f *testing.F) {
	cfg := tinyConfig()
	rc, _, err := experiment.ConfigForFigure(5, cfg)
	if err != nil {
		f.Fatal(err)
	}
	valid := validHeader(f, cfg)
	f.Add(valid)
	f.Add(negativeDrops(f, valid))
	for _, n := range []int{0, 1, len(valid) / 2, len(valid) - 2} {
		f.Add(valid[:n])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "shard.json"), data, 0o644); err != nil {
			t.Skip()
		}
		h, err := InitDir(dir, 5, cfg)
		if err != nil {
			return
		}
		if h.Seed != rc.Seed || h.Drops != rc.Drops || !slices.Equal(h.Schemes, rc.Schemes) {
			t.Fatalf("accepted header shape seed %d drops %d schemes %v, config has %d / %d / %v",
				h.Seed, h.Drops, h.Schemes, rc.Seed, rc.Drops, rc.Schemes)
		}
	})
}

// TestTamperedShapeIsRefused pins that a worker and the merge refuse a
// shard.json whose hash is right but whose restated drop count is not,
// with the typed error, instead of building a cell grid from it.
func TestTamperedShapeIsRefused(t *testing.T) {
	cfg := tinyConfig()
	dir := t.TempDir()
	if _, err := InitDir(dir, 5, cfg); err != nil {
		t.Fatal(err)
	}
	hp := filepath.Join(dir, "shard.json")
	valid, err := os.ReadFile(hp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(hp, negativeDrops(t, valid), 0o644); err != nil {
		t.Fatal(err)
	}
	var me *HeaderMismatchError
	w := &Worker{Dir: dir, ID: "w1", Figure: 5, Config: cfg}
	if _, err := w.Run(context.Background()); !errors.As(err, &me) || me.Got.Drops != -1 {
		t.Errorf("Worker.Run err = %v, want a *HeaderMismatchError for drops -1", err)
	}
	if _, err := Merge(dir, 5, cfg); !errors.As(err, &me) || me.Got.Drops != -1 {
		t.Errorf("Merge err = %v, want a *HeaderMismatchError for drops -1", err)
	}
}

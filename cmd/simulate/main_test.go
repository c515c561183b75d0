package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"opinions/internal/store"
)

// A tiny deployment written with -out reopens through store.Open — the
// path rspd -wal-dir takes — with the deployment's totals.
func TestOutDirRoundTrips(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	dep, err := run([]string{"-users", "20", "-days", "10", "-out", dir}, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rev, ops, hists := dep.Server.Stores()
	if got, want := st.Reviews().TotalReviews(), rev.TotalReviews(); got != want || want == 0 {
		t.Fatalf("reviews: reopened %d, deployment %d", got, want)
	}
	if got, want := st.Opinions().Total(), ops.Total(); got != want {
		t.Fatalf("inferred opinions: reopened %d, deployment %d", got, want)
	}
	if got, want := st.Histories().Stats(), hists.Stats(); got != want || want.Records == 0 {
		t.Fatalf("histories: reopened %+v, deployment %+v", got, want)
	}
}

// An -out that already holds files is refused before anything runs.
func TestOutDirMustBeEmpty(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "keep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := run([]string{"-users", "20", "-days", "10", "-out", dir}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "not empty") {
		t.Fatalf("want a not-empty refusal, got %v", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("refused run touched the directory: %d entries", len(entries))
	}
}

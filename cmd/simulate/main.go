// Command simulate runs a full deployment — city, device agents,
// reviews, anonymous uploads, model training — and writes the resulting
// RSP state as a durability directory that rspd recovers:
//
//	simulate -users 300 -days 180 -out state
//	rspd -world city -users 300 -seed 1 -wal-dir state
//
// The directory contains only what a real RSP would hold: reviews,
// anonymous histories, inferred opinions, the trained model. No user
// identities exist in it (§4.2).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"opinions/internal/experiments"
	"opinions/internal/store"
)

func main() {
	if _, err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "simulate: %v\n", err)
		os.Exit(1)
	}
}

// run simulates the deployment args describe, writes its state to the
// -out directory, and returns the deployment.
func run(args []string, stdout, stderr io.Writer) (*experiments.Deployment, error) {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		users = fs.Int("users", 300, "city users")
		days  = fs.Int("days", 180, "days to simulate")
		seed  = fs.Int64("seed", 1, "seed (must match rspd's -seed to share the catalog)")
		out   = fs.String("out", "state", "durability directory to create (absent or empty); serve it with rspd -wal-dir")
		sweep = fs.Bool("sweep", true, "run the §4.3 fraud sweep before saving")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	// Refuse before simulating: the run can take minutes.
	entries, err := os.ReadDir(*out)
	switch {
	case err == nil && len(entries) > 0:
		return nil, fmt.Errorf("-out %s exists and is not empty", *out)
	case err != nil && !errors.Is(err, os.ErrNotExist):
		return nil, err
	}

	start := time.Now()
	dep, err := experiments.RunDeployment(experiments.DeployConfig{
		Seed: *seed, Users: *users, Days: *days, KeyBits: 1024,
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "simulated %d users × %d days in %v\n",
		*users, *days, time.Since(start).Round(time.Second))

	if *sweep {
		scanned, discarded, err := dep.Server.FraudSweep()
		if err != nil {
			return nil, fmt.Errorf("fraud sweep: %w", err)
		}
		fmt.Fprintf(stderr, "fraud sweep: %d scanned, %d discarded\n", scanned, discarded)
	}

	st, err := store.Open(store.Options{Dir: *out})
	if err != nil {
		return nil, err
	}
	if err := st.Restore(dep.Server.Store().Snapshot()); err != nil {
		st.Close()
		return nil, err
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	rev, ops, hists := dep.Server.Stores()
	hs := hists.Stats()
	fmt.Fprintf(stdout, "saved %s: %d reviews, %d inferred opinions, %d histories (%d records), model trained: %v\n",
		*out, rev.TotalReviews(), ops.Total(), hs.Histories, hs.Records, dep.ModelTrained)
	return dep, nil
}

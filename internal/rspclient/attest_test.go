package rspclient

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"opinions/internal/anonymity"
	"opinions/internal/attest"
	"opinions/internal/history"
	"opinions/internal/interaction"
	"opinions/internal/rspserver"
	"opinions/internal/simclock"
	"opinions/internal/world"
)

// attestedEnv builds an attestation-enforcing server plus two devices.
func attestedEnv(t *testing.T) (*rspserver.Server, *attest.Device, *attest.Device) {
	t.Helper()
	clock := simclock.NewSim(simclock.Epoch)
	good := []byte("official build")
	verifier := attest.NewVerifier(clock, attest.MeasureBuild(good))
	honest := attest.NewDevice("dev-honest", []byte("ak1"), good)
	verifier.Provision("dev-honest", []byte("ak1"))
	tampered := attest.NewDevice("dev-tampered", []byte("ak2"), good)
	verifier.Provision("dev-tampered", []byte("ak2"))
	tampered.Tamper([]byte("patched"))

	srv, err := rspserver.New(rspserver.Config{
		Catalog:     []*world.Entity{{ID: "a", Service: world.Yelp, Zip: "z", Category: "c"}},
		Clock:       clock,
		KeyBits:     512,
		Attestation: verifier,
		TokenRate:   1000, TokenPeriod: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, honest, tampered
}

func TestAgentAttestsThenUploadsOverHTTP(t *testing.T) {
	srv, honest, _ := attestedEnv(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	transport := &HTTPTransport{BaseURL: ts.URL}

	agent := NewAgent(Config{DeviceID: "dev-honest", Seed: 1, MixMax: time.Minute}, transport)
	if err := agent.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	// Without attestation the token request (and so the flush) fails.
	rec := interaction.Record{
		Entity: "yelp/a", Kind: interaction.VisitKind,
		Start: simclock.Epoch, Duration: time.Hour,
	}
	agent.store.Add(rec)
	agent.mix.Submit(anonymity.Upload{
		AnonID: history.AnonID(agent.Ru(), "yelp/a"),
		Entity: "yelp/a",
		Record: &rec,
		Key:    anonymity.NewUploadKey(),
	}, simclock.Epoch)
	if _, err := agent.FlushUploads(simclock.Epoch.Add(time.Hour)); err == nil {
		t.Fatal("unattested flush succeeded")
	}
	// Attest; the requeued upload now flows.
	if err := transport.Attest(honest); err != nil {
		t.Fatal(err)
	}
	sent, err := agent.FlushUploads(simclock.Epoch.Add(2 * time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if sent != 1 {
		t.Fatalf("sent = %d", sent)
	}
}

func TestTamperedDeviceCannotAttest(t *testing.T) {
	srv, _, tampered := attestedEnv(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	transport := &HTTPTransport{BaseURL: ts.URL}
	err := transport.Attest(tampered)
	if err == nil {
		t.Fatal("tampered build attested")
	}
	if !strings.Contains(err.Error(), "known-good") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestLocalTransportAttest(t *testing.T) {
	srv, honest, tampered := attestedEnv(t)
	lt := &LocalTransport{Server: srv}
	if err := lt.Attest(honest); err != nil {
		t.Fatal(err)
	}
	if err := lt.Attest(tampered); err == nil {
		t.Fatal("tampered build attested locally")
	}
	// Server without verifier.
	plain, err := rspserver.New(rspserver.Config{KeyBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := (&LocalTransport{Server: plain}).Attest(honest); err == nil {
		t.Fatal("attested against a server without a verifier")
	}
}

package rspserver

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"opinions/internal/obs"
	"opinions/internal/world"
)

// BenchmarkServeDirectoryThroughChain serves the full city directory
// through the middleware chain rspd -quiet mounts, into a writer that
// discards the body: B/op is what the chain and the handler allocate
// per request, not the body's bytes on the wire.
func BenchmarkServeDirectoryThroughChain(b *testing.B) {
	city := world.OpenCity(world.CityConfig{Seed: 1, NumUsers: 1})
	srv, err := New(Config{Catalog: city.Entities, KeyBits: 1024})
	if err != nil {
		b.Fatal(err)
	}
	logger := testLogger(io.Discard)
	h := Chain(srv.Handler(),
		WithRecovery(logger), WithTracing(obs.NewSpanRing(256)), WithMetrics(),
		WithTimeout(30*time.Second), WithMaxInFlight(256, time.Second))
	req := httptest.NewRequest(http.MethodGet, "/api/directory", nil)
	w := &discardWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // encodes the directory once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
}

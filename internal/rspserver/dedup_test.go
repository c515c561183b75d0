package rspserver

import (
	"net/http/httptest"
	"testing"
)

// uploadFor builds a rating upload for the test catalog's entity "a".
func uploadFor(t *testing.T, ts *httptest.Server, device, key string) UploadRequest {
	t.Helper()
	rating := 4.0
	return UploadRequest{
		AnonID: "anon-" + device,
		Entity: "yelp/a",
		Rating: &rating,
		Token:  fetchToken(t, ts.URL, device),
		Key:    key,
	}
}

// TestUploadReplaySameTokenIsIdempotent is the truncated-2xx retry on
// the wire: the exact same request body (same token, same key) arrives
// twice. The second delivery must answer success and change nothing.
func TestUploadReplaySameTokenIsIdempotent(t *testing.T) {
	srv, ts := testServer(t)
	req := uploadFor(t, ts, "dev-replay", "key-replay-1")

	for attempt := 0; attempt < 3; attempt++ {
		if resp := postJSON(t, ts.URL+"/api/upload", req, nil); resp.StatusCode != 202 {
			t.Fatalf("attempt %d: status %d, want 202", attempt, resp.StatusCode)
		}
	}
	_, ops, _ := srv.Stores()
	if got := ops.Total(); got != 1 {
		t.Fatalf("opinions.Total() = %d after 3 deliveries of one upload, want 1", got)
	}
}

// TestUploadRedeliveryFreshTokenIsIdempotent is the spool-redrain case:
// the first delivery was applied but unacknowledged, the client spooled
// the upload (token stripped) and redelivers under a fresh token with
// the original idempotency key.
func TestUploadRedeliveryFreshTokenIsIdempotent(t *testing.T) {
	srv, ts := testServer(t)
	first := uploadFor(t, ts, "dev-redeliver", "key-redeliver-1")
	if resp := postJSON(t, ts.URL+"/api/upload", first, nil); resp.StatusCode != 202 {
		t.Fatalf("first delivery status %d", resp.StatusCode)
	}

	second := first
	second.Token = fetchToken(t, ts.URL, "dev-redeliver")
	if resp := postJSON(t, ts.URL+"/api/upload", second, nil); resp.StatusCode != 202 {
		t.Fatalf("redelivery status %d, want 202", resp.StatusCode)
	}
	_, ops, hists := srv.Stores()
	if got := ops.Total(); got != 1 {
		t.Fatalf("opinions.Total() = %d after redelivery, want 1", got)
	}
	if got := hists.Stats().Records; got != 0 {
		t.Fatalf("history records = %d for a rating-only upload, want 0", got)
	}
}

// TestUploadSpentTokenUnknownKeyStays403: deduplication must not excuse
// genuine double-spending — a spent token under a *different* key is
// still refused.
func TestUploadSpentTokenUnknownKeyStays403(t *testing.T) {
	srv, ts := testServer(t)
	first := uploadFor(t, ts, "dev-doublespend", "key-ds-1")
	if resp := postJSON(t, ts.URL+"/api/upload", first, nil); resp.StatusCode != 202 {
		t.Fatalf("first delivery status %d", resp.StatusCode)
	}
	second := first
	second.Key = "key-ds-2" // a different upload riding a spent token
	if resp := postJSON(t, ts.URL+"/api/upload", second, nil); resp.StatusCode != 403 {
		t.Fatalf("spent token under new key: status %d, want 403", resp.StatusCode)
	}
	_, ops, _ := srv.Stores()
	if got := ops.Total(); got != 1 {
		t.Fatalf("opinions.Total() = %d, want 1", got)
	}
}

// TestUploadWithoutKeyRefused: every upload carries its idempotency
// key. One without is refused with 400 before anything is spent, so the
// same token is accepted once the key is added.
func TestUploadWithoutKeyRefused(t *testing.T) {
	srv, ts := testServer(t)
	req := uploadFor(t, ts, "dev-keyless", "")
	if resp := postJSON(t, ts.URL+"/api/upload", req, nil); resp.StatusCode != 400 {
		t.Fatalf("keyless upload status %d, want 400", resp.StatusCode)
	}
	req.Key = "key-after-keyless"
	if resp := postJSON(t, ts.URL+"/api/upload", req, nil); resp.StatusCode != 202 {
		t.Fatalf("same token with a key: status %d, want 202", resp.StatusCode)
	}
	_, ops, _ := srv.Stores()
	if got := ops.Total(); got != 1 {
		t.Fatalf("opinions.Total() = %d, want 1", got)
	}
}

// TestDedupLedgerSurvivesSnapshot: exactly-once must hold across a
// server restart — a key accepted before the shutdown snapshot is still
// a duplicate afterward.
func TestDedupLedgerSurvivesSnapshot(t *testing.T) {
	srv, ts := testServer(t)
	req := uploadFor(t, ts, "dev-snap", "key-snap-1")
	if resp := postJSON(t, ts.URL+"/api/upload", req, nil); resp.StatusCode != 202 {
		t.Fatalf("first delivery status %d", resp.StatusCode)
	}
	snap := srv.Store().Snapshot()

	srv2, ts2 := testServer(t)
	if err := srv2.Store().Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := srv2.Store().Ledger().Len(); got != 1 {
		t.Fatalf("restored ledger holds %d keys, want 1", got)
	}
	redeliver := req
	redeliver.Token = fetchToken(t, ts2.URL, "dev-snap")
	if resp := postJSON(t, ts2.URL+"/api/upload", redeliver, nil); resp.StatusCode != 202 {
		t.Fatalf("post-restart redelivery status %d, want 202", resp.StatusCode)
	}
	_, ops, _ := srv2.Stores()
	if got := ops.Total(); got != 1 {
		t.Fatalf("opinions.Total() = %d after restart + redelivery, want 1", got)
	}
}

// TestDirectoryEmptyIsJSONArray: a directory query with no matches must
// serialize as [] — a stable array type for clients — not JSON null.
func TestDirectoryEmptyIsJSONArray(t *testing.T) {
	_, ts := testServer(t)
	var out []WireEntity
	resp := getJSON(t, ts.URL+"/api/directory?service=nosuch", &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out == nil {
		t.Fatal("empty directory decoded to nil — server sent JSON null, want []")
	}
	if len(out) != 0 {
		t.Fatalf("unexpected %d entities for unknown service", len(out))
	}
}

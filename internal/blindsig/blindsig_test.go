package blindsig

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"
	"time"

	"opinions/internal/simclock"
)

// testIssuer uses a small key for test speed; production uses ≥2048.
func testIssuer(t *testing.T, rate int, period time.Duration, clock simclock.Clock) *Issuer {
	t.Helper()
	is, err := NewIssuer(1024, rate, period, clock)
	if err != nil {
		t.Fatal(err)
	}
	return is
}

func TestBlindSignRoundTrip(t *testing.T) {
	is := testIssuer(t, 10, time.Hour, nil)
	msg := []byte("token-serial-1")
	blinded, unblind, err := Blind(is.PublicKey(), msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blindSig, err := is.Sign("device-a", blinded)
	if err != nil {
		t.Fatal(err)
	}
	sig := unblind(blindSig)
	if !Verify(is.PublicKey(), msg, sig) {
		t.Fatal("unblinded signature does not verify")
	}
	if Verify(is.PublicKey(), []byte("other"), sig) {
		t.Fatal("signature verifies for a different message")
	}
}

func TestIssuerNeverSeesMessage(t *testing.T) {
	// The blinded value must not equal H(msg); blinding must actually
	// transform it.
	is := testIssuer(t, 10, time.Hour, nil)
	msg := []byte("secret")
	b1, _, err := Blind(is.PublicKey(), msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := Blind(is.PublicKey(), msg, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Cmp(b2) == 0 {
		t.Fatal("two blindings of the same message are identical; blinding factor ignored")
	}
	if b1.Cmp(hashToInt(msg)) == 0 {
		t.Fatal("blinded value equals message hash")
	}
}

func TestRateLimit(t *testing.T) {
	clock := simclock.NewSim(simclock.Epoch)
	is := testIssuer(t, 2, 24*time.Hour, clock)
	for i := 0; i < 2; i++ {
		if _, err := RequestToken(is, "dev", rand.Reader); err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
	}
	if _, err := RequestToken(is, "dev", rand.Reader); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("third token err = %v, want ErrRateLimited", err)
	}
	// Another device is unaffected.
	if _, err := RequestToken(is, "dev2", rand.Reader); err != nil {
		t.Fatalf("other device: %v", err)
	}
	// After the period passes the budget refills.
	clock.Advance(25 * time.Hour)
	if _, err := RequestToken(is, "dev", rand.Reader); err != nil {
		t.Fatalf("after refill: %v", err)
	}
}

func TestRedeemOnce(t *testing.T) {
	is := testIssuer(t, 10, time.Hour, nil)
	tok, err := RequestToken(is, "dev", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRedeemer(is.PublicKey())
	if err := rd.Redeem(tok); err != nil {
		t.Fatalf("first redeem: %v", err)
	}
	if err := rd.Redeem(tok); !errors.Is(err, ErrTokenSpent) {
		t.Fatalf("second redeem err = %v, want ErrTokenSpent", err)
	}
}

func TestRedeemForged(t *testing.T) {
	is := testIssuer(t, 10, time.Hour, nil)
	rd := NewRedeemer(is.PublicKey())
	forged := Token{Msg: []byte("forged"), Sig: big.NewInt(12345)}
	if err := rd.Redeem(forged); !errors.Is(err, ErrTokenInvalid) {
		t.Fatalf("forged redeem err = %v, want ErrTokenInvalid", err)
	}
}

func TestSignRejectsOutOfRange(t *testing.T) {
	is := testIssuer(t, 10, time.Hour, nil)
	if _, err := is.Sign("dev", nil); !errors.Is(err, ErrBlindedOutOfRange) {
		t.Errorf("nil blinded: err = %v", err)
	}
	if _, err := is.Sign("dev", big.NewInt(0)); !errors.Is(err, ErrBlindedOutOfRange) {
		t.Errorf("zero blinded: err = %v", err)
	}
	if _, err := is.Sign("dev", is.PublicKey().N); !errors.Is(err, ErrBlindedOutOfRange) {
		t.Errorf("blinded = N: err = %v", err)
	}
	tooBig := new(big.Int).Add(is.PublicKey().N, big.NewInt(1))
	if _, err := is.Sign("dev", tooBig); !errors.Is(err, ErrBlindedOutOfRange) {
		t.Errorf("oversized blinded: err = %v", err)
	}
}

// The CRT signature equals the plain full-width exponentiation c^d
// mod N, on random inputs and on the edges: 1, N−1, and the two primes
// themselves, which are not coprime to N.
func TestSignMatchesPlainExponentiation(t *testing.T) {
	for _, bits := range []int{1024, 2048} {
		is, err := NewIssuer(bits, 1<<30, time.Hour, nil)
		if err != nil {
			t.Fatal(err)
		}
		key := is.key
		inputs := []*big.Int{big.NewInt(1), new(big.Int).Sub(key.N, big.NewInt(1)), key.Primes[0], key.Primes[1]}
		for i := 0; i < 100; i++ {
			c, err := rand.Int(rand.Reader, key.N)
			if err != nil {
				t.Fatal(err)
			}
			if c.Sign() > 0 {
				inputs = append(inputs, c)
			}
		}
		for i, c := range inputs {
			got, err := is.Sign(fmt.Sprint("dev-", i), c)
			if err != nil {
				t.Fatalf("%d bits, input %d: %v", bits, i, err)
			}
			if want := new(big.Int).Exp(c, key.D, key.N); got.Cmp(want) != 0 {
				t.Fatalf("%d bits, input %d: CRT signature %x, plain %x", bits, i, got, want)
			}
		}
	}
}

// A faulted CRT half must not leave the issuer: gcd(s'^e − c, N) of a
// signature wrong modulo one prime only would factor the key. The
// device's grant stays spent.
func TestSignRefusesFaultedHalf(t *testing.T) {
	is := testIssuer(t, 1, time.Hour, simclock.NewSim(simclock.Epoch))
	key := *is.key
	key.Precomputed.Dq = new(big.Int).Add(key.Precomputed.Dq, big.NewInt(1))
	faulty := &Issuer{key: &key, clock: is.clock, rate: is.rate, period: is.period, grants: make(map[string][]time.Time)}
	blinded, _, err := Blind(faulty.PublicKey(), []byte("serial"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := faulty.Sign("dev", blinded)
	if !errors.Is(err, ErrSignFault) || sig != nil {
		t.Fatalf("faulted sign = %v, %v; want nil, ErrSignFault", sig, err)
	}
	if _, err := faulty.Sign("dev", blinded); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("sign after a fault: err = %v, want ErrRateLimited (the grant stays spent)", err)
	}
	if sig, err := is.Sign("dev", blinded); err != nil || sig == nil {
		t.Fatalf("the unperturbed key: %v, %v", sig, err)
	}
}

// Concurrent requests for one device share its budget exactly: the
// check and the record are one step under the lock, so 16 requests
// released at once at rate 5 get 5 signatures, each of which verifies.
func TestSignConcurrentOneDevice(t *testing.T) {
	const rate, requests = 5, 16
	is := testIssuer(t, rate, time.Hour, simclock.NewSim(simclock.Epoch))
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		tokens  []Token
		limited int
	)
	start := make(chan struct{})
	for i := 0; i < requests; i++ {
		serial := []byte(fmt.Sprint("serial-", i))
		blinded, unblind, err := Blind(is.PublicKey(), serial, rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			sig, err := is.Sign("dev", blinded)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				tokens = append(tokens, Token{Msg: serial, Sig: unblind(sig)})
			case errors.Is(err, ErrRateLimited):
				limited++
			default:
				t.Errorf("sign: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if len(tokens) != rate || limited != requests-rate {
		t.Fatalf("%d signed, %d rate-limited; want %d and %d", len(tokens), limited, rate, requests-rate)
	}
	for i, tok := range tokens {
		if !Verify(is.PublicKey(), tok.Msg, tok.Sig) {
			t.Fatalf("token %d does not verify", i)
		}
	}
}

func TestNewIssuerValidation(t *testing.T) {
	if _, err := NewIssuer(1024, 0, time.Hour, nil); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := NewIssuer(1024, 1, 0, nil); err == nil {
		t.Error("period 0 accepted")
	}
}

func TestVerifyNilInputs(t *testing.T) {
	is := testIssuer(t, 1, time.Hour, nil)
	if Verify(nil, []byte("m"), big.NewInt(1)) {
		t.Error("nil key verified")
	}
	if Verify(is.PublicKey(), []byte("m"), nil) {
		t.Error("nil sig verified")
	}
}

func TestBlindNilKey(t *testing.T) {
	if _, _, err := Blind(nil, []byte("m"), rand.Reader); err == nil {
		t.Error("nil key accepted")
	}
}

func TestTokensAreUnlinkable(t *testing.T) {
	// Two tokens issued to the same device must share no bytes of
	// serial: the issuer cannot recognize them at redemption.
	is := testIssuer(t, 10, time.Hour, nil)
	t1, err := RequestToken(is, "dev", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RequestToken(is, "dev", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if string(t1.Msg) == string(t2.Msg) {
		t.Fatal("two tokens share a serial")
	}
	rd := NewRedeemer(is.PublicKey())
	if err := rd.Redeem(t1); err != nil {
		t.Fatal(err)
	}
	if err := rd.Redeem(t2); err != nil {
		t.Fatal(err)
	}
}

// One key, one secret per label; another key or label, another secret.
func TestSecretFollowsKeyAndLabel(t *testing.T) {
	is := testIssuer(t, 1, time.Hour, simclock.NewSim(simclock.Epoch))
	other := testIssuer(t, 1, time.Hour, simclock.NewSim(simclock.Epoch))
	s := is.Secret("a")
	if !bytes.Equal(is.Secret("a"), s) || len(s) != 32 {
		t.Fatal("one key and label derived two secrets")
	}
	if bytes.Equal(is.Secret("b"), s) || bytes.Equal(other.Secret("a"), s) {
		t.Fatal("a different label or key derived the same secret")
	}
}

package blindsig

import (
	"crypto/rand"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func benchIssuer(b *testing.B, bits int) *Issuer {
	b.Helper()
	is, err := NewIssuer(bits, 1<<30, time.Hour, nil)
	if err != nil {
		b.Fatal(err)
	}
	return is
}

func BenchmarkBlind(b *testing.B) {
	is := benchIssuer(b, 1024)
	msg := []byte("serial")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Blind(is.PublicKey(), msg, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSign gives each iteration its own device, so a device's
// grant list stays one long and the figure is the signature alone.
func BenchmarkSign(b *testing.B) {
	for _, bits := range []int{1024, 2048} {
		b.Run(strconv.Itoa(bits), func(b *testing.B) {
			is := benchIssuer(b, bits)
			blinded, _, err := Blind(is.PublicKey(), []byte("serial"), rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := is.Sign("dev-"+strconv.Itoa(i), blinded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSignParallel signs from GOMAXPROCS goroutines at the
// production key size, one device per sign: ns/op is wall time per
// token, so a sign that serializes on the issuer shows as no faster
// than BenchmarkSign/2048.
func BenchmarkSignParallel(b *testing.B) {
	is := benchIssuer(b, 2048)
	blinded, _, err := Blind(is.PublicKey(), []byte("serial"), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := is.Sign("dev-"+strconv.FormatInt(next.Add(1), 10), blinded); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkVerify(b *testing.B) {
	is := benchIssuer(b, 1024)
	tok, err := RequestToken(is, "dev", rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Verify(is.PublicKey(), tok.Msg, tok.Sig) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkFullTokenProtocol(b *testing.B) {
	is := benchIssuer(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RequestToken(is, "dev-"+strconv.Itoa(i), rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}
